//! The fabric's vocabulary — endpoints, invocations, routing policies,
//! and the knobs and report of a run — plus [`run_fabric`], the
//! single-broker entry point.
//!
//! An *endpoint* is a worker pool pinned to a fleet device (our funcX
//! analogue). Invocations arrive over time from origin nodes; the broker
//! picks an endpoint under a [`RoutingPolicy`], the request payload moves
//! to the endpoint, executes when a slot frees, and the response moves
//! back. Experiment F7 reports throughput, latency percentiles, and
//! endpoint load balance (Jain index) under each policy.
//!
//! A single broker is the degenerate federation: [`run_fabric`] runs the
//! invocations through [`run_federation`] over one site owning every
//! endpoint. The fabric has one event loop, in [`crate::federation`].
//!
//! # Endpoint faults
//!
//! [`FederationCfg::faults`] interprets the endpoint events of a
//! [`FaultSchedule`]. A crash kills the invocations running on the
//! endpoint (their elapsed execution is counted as lost work) and freezes
//! its queue; the broker notices only after a heartbeat interval
//! ([`EndpointFaults::heartbeat`] — funcX-style detection latency), then
//! re-routes the dead endpoint's queued and orphaned work to surviving
//! endpoints under the active policy, spacing attempts with capped
//! exponential backoff plus jitter ([`Backoff`]). An endpoint that
//! recovers *before* detection simply restarts its orphans in place (the
//! payloads are already there); recovery always comes back cold.

use crate::federation::{run_federation, single_site, FederationCfg};
use crate::registry::{FunctionId, FunctionRegistry};
use continuum_model::DeviceId;
use continuum_net::NodeId;
use continuum_placement::Env;
use continuum_sim::{FaultSchedule, Percentiles, Rng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EndpointId(pub u32);

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// A worker pool on one device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Endpoint {
    /// This endpoint's id.
    pub id: EndpointId,
    /// Device hosting the workers.
    pub device: DeviceId,
    /// Concurrent invocation slots (usually the device's core count).
    pub slots: u32,
}

/// How the broker chooses an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Cycle through endpoints.
    RoundRobin,
    /// Fewest outstanding (queued + running) invocations; id breaks ties.
    LeastOutstanding,
    /// Minimum predicted completion: request transfer + queue estimate +
    /// execution + response transfer. The continuum-aware policy.
    Locality,
}

impl RoutingPolicy {
    /// Label for experiment rows.
    pub fn label(self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastOutstanding => "least-outstanding",
            RoutingPolicy::Locality => "locality",
        }
    }
}

/// One function invocation entering the fabric.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Invocation {
    /// Arrival time.
    pub arrival: SimTime,
    /// Node issuing the call (payloads move from/to here).
    pub origin: NodeId,
    /// Function to run.
    pub function: FunctionId,
}

/// Capped exponential backoff with multiplicative jitter, spacing the
/// re-route attempts of work displaced by an endpoint crash.
///
/// Attempt `k` (0-based) waits `min(cap, base · 2^k)`, scaled by a
/// uniform factor in `[1 - jitter/2, 1 + jitter/2]` so that a burst of
/// displaced invocations does not re-arrive in lockstep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Backoff {
    /// Delay before the first re-route attempt.
    pub base: SimDuration,
    /// Upper bound on the exponential delay.
    pub cap: SimDuration,
    /// Jitter amplitude in `[0, 1]` (0 = deterministic).
    pub jitter: f64,
    /// Re-route attempts before an invocation is dropped as lost.
    pub max_retries: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            base: SimDuration::from_millis(100),
            cap: SimDuration::from_secs(10),
            jitter: 0.2,
            max_retries: 16,
        }
    }
}

impl Backoff {
    /// Delay before re-route attempt `attempt` (0-based).
    pub fn delay(&self, attempt: u32, rng: &mut Rng) -> SimDuration {
        let exp = self.base.as_nanos().saturating_mul(1u64 << attempt.min(40));
        let d = SimDuration::from_nanos(exp.min(self.cap.as_nanos()).max(1));
        if self.jitter > 0.0 {
            d.mul_f64(1.0 + self.jitter * (rng.f64() - 0.5))
        } else {
            d
        }
    }
}

/// Endpoint fault injection ([`FederationCfg::faults`]).
#[derive(Debug, Clone)]
pub struct EndpointFaults {
    /// Schedule whose `EndpointCrash`/`EndpointRecover` events are
    /// interpreted (device/link events are ignored by the broker).
    pub schedule: FaultSchedule,
    /// Heartbeat interval: how long after a crash the broker notices and
    /// starts re-routing the endpoint's work.
    pub heartbeat: SimDuration,
    /// Re-route pacing.
    pub backoff: Backoff,
    /// Seed for backoff jitter (deterministic per run).
    pub seed: u64,
}

/// Admission control at the broker: bounded backlog with reject-and-count.
///
/// A *new arrival* that finds `max_outstanding` or more invocations in the
/// system (assigned and not yet responded, across all endpoints) is
/// rejected outright — counted on [`FabricReport::rejected`], never
/// queued. This bounds every waiting queue, and with it the broker's
/// memory, by the cap instead of by the offered load. Displaced work
/// (re-routes after a crash) is never re-admitted through the gate: it
/// was already accepted, and dropping it would double-count against the
/// backoff budget.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Admission {
    /// Maximum in-system (assigned, unresponded) invocations at which a
    /// new arrival is still admitted.
    pub max_outstanding: usize,
}

/// Aggregate result of a fabric run.
///
/// `PartialEq` is derived so runs can be asserted bit-identical to one
/// another (floats compared exactly, on purpose).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricReport {
    /// Completed invocations.
    pub completed: u64,
    /// End-to-end latency per invocation, seconds, in completion order.
    pub latencies_s: Vec<f64>,
    /// Completions per endpoint.
    pub per_endpoint: Vec<u64>,
    /// Completions per wall-clock second of the run.
    pub throughput_hz: f64,
    /// Jain fairness of per-endpoint completions.
    pub jain: f64,
    /// Virtual time when the last response arrived.
    pub end_time: SimTime,
    /// Integral of active slots over the run (slot-seconds) — the
    /// provisioning cost. With static provisioning this is
    /// `total slots × end_time`.
    pub slot_seconds: f64,
    /// Successful re-assignments of displaced work to a new endpoint.
    pub reroutes: u64,
    /// Backoff rounds scheduled for displaced work (≥ `reroutes`; the
    /// excess is rounds that found every endpoint down and waited again).
    pub retries: u64,
    /// Invocations abandoned after `Backoff::max_retries` rounds, or
    /// dropped on arrival because the registry does not know their
    /// function id.
    /// `completed + dropped + rejected` always equals the invocation
    /// count.
    pub dropped: u64,
    /// Arrivals refused by [`Admission`] control (0 without a gate).
    pub rejected: u64,
    /// Execution seconds destroyed by crashes (work that was running and
    /// had to restart elsewhere).
    pub lost_work_s: f64,
}

impl FabricReport {
    /// (p50, p95, p99) latency, seconds — exact sample quantiles.
    pub fn latency_percentiles(&self) -> (f64, f64, f64) {
        let mut p = Percentiles::new();
        for &l in &self.latencies_s {
            p.push(l);
        }
        p.p50_p95_p99().unwrap_or((0.0, 0.0, 0.0))
    }

    /// Latency distribution as the shared log₂ telemetry histogram.
    ///
    /// This is the *same construction* the broker's telemetry export uses
    /// for `fabric.latency` (one `observe_secs` per completion, in
    /// completion order), so report-side quantiles and exported metrics
    /// share one bucketing/conversion path and cannot drift. Exact sample
    /// quantiles stay on [`FabricReport::latency_percentiles`]; the
    /// histogram trades the documented ~2× bucket error for mergeability
    /// and O(1) memory.
    pub fn latency_histogram(&self) -> continuum_obs::Histogram {
        let mut h = continuum_obs::Histogram::default();
        for &l in &self.latencies_s {
            h.observe_secs(l);
        }
        h
    }

    /// Estimated latency `q`-quantile in nanoseconds via the shared
    /// histogram ([`continuum_obs::Histogram::quantile_ns`] semantics:
    /// within ~2× of the exact sample quantile, clamped to observed
    /// min/max).
    pub fn latency_quantile_ns(&self, q: f64) -> u64 {
        self.latency_histogram().quantile_ns(q)
    }
}

/// Elastic provisioning of endpoint slots.
///
/// Each endpoint starts with `min_slots` active workers, grows one slot at
/// a time (up to its declared `slots`) whenever work is waiting and every
/// active slot is busy, and shrinks back toward `min_slots` whenever its
/// queue drains. The [`FabricReport::slot_seconds`] integral measures the
/// provisioning cost this saves versus static peak capacity.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Autoscale {
    /// Slots an endpoint always keeps active.
    pub min_slots: u32,
}

/// Cold-start behaviour of endpoint workers (the funcX/serverless tax).
///
/// An endpoint whose last activity ended more than `keep_warm` ago pays
/// `cold_time` before the next invocation executes (container pull,
/// runtime boot, model load). Activity refreshes the warm window.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ColdStart {
    /// Extra latency paid by an invocation that finds the endpoint cold.
    pub cold_time: continuum_sim::SimDuration,
    /// How long after its last activity an endpoint stays warm.
    pub keep_warm: continuum_sim::SimDuration,
}

/// Run a set of invocations through the fabric as a one-site federation.
///
/// Every endpoint belongs to one site, so site forwarding is trivial and
/// each invocation meets the endpoint-level [`RoutingPolicy`] of
/// `cfg.policy` directly. This is [`run_federation`] over
/// [`single_site`]; the report is the federation's [`FabricReport`].
///
/// Transfers use the analytic path model (no cross-invocation link
/// contention — the fabric experiment isolates endpoint queueing; the DAG
/// executor in `continuum-runtime` covers link contention).
pub fn run_fabric(
    env: &Env,
    registry: &FunctionRegistry,
    endpoints: &[Endpoint],
    invocations: &[Invocation],
    cfg: &FederationCfg,
) -> FabricReport {
    let sites = single_site(env, endpoints);
    run_federation(env, registry, endpoints, &sites, invocations, cfg).fabric
}

/// Build one endpoint per device of the given tier(s), slots = cores.
pub fn endpoints_on(env: &Env, devices: &[DeviceId]) -> Vec<Endpoint> {
    devices
        .iter()
        .enumerate()
        .map(|(i, &d)| Endpoint {
            id: EndpointId(i as u32),
            device: d,
            slots: env.fleet.device(d).spec.cores,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec, Tier};
    use continuum_sim::Rng;

    fn setup() -> (Env, FunctionRegistry, Vec<Endpoint>, Vec<Invocation>) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut reg = FunctionRegistry::new();
        let f = reg.register("infer", 5e9, 200 << 10, 1 << 10);
        let eps = endpoints_on(&env, &env.fleet.in_tier(Tier::Cloud));
        let mut rng = Rng::new(77);
        let mut t = 0.0;
        let invocations: Vec<Invocation> = (0..200)
            .map(|i| {
                t += rng.exp(50.0);
                Invocation {
                    arrival: SimTime::from_secs_f64(t),
                    origin: built.sensors[i % built.sensors.len()],
                    function: f,
                }
            })
            .collect();
        (env, reg, eps, invocations)
    }

    #[test]
    fn all_policies_complete_everything() {
        let (env, reg, eps, invs) = setup();
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastOutstanding,
            RoutingPolicy::Locality,
        ] {
            let rep = run_fabric(&env, &reg, &eps, &invs, &FederationCfg::new(policy));
            assert_eq!(rep.completed, invs.len() as u64, "{}", policy.label());
            assert_eq!(
                rep.per_endpoint.iter().sum::<u64>(),
                invs.len() as u64,
                "{}",
                policy.label()
            );
            assert!(rep.throughput_hz > 0.0);
            let (p50, p95, p99) = rep.latency_percentiles();
            assert!(p50 <= p95 && p95 <= p99);
            assert_eq!(rep.reroutes + rep.retries + rep.dropped + rep.rejected, 0);
            assert_eq!(rep.lost_work_s, 0.0);
        }
    }

    #[test]
    fn round_robin_is_perfectly_balanced() {
        let (env, reg, eps, invs) = setup();
        let rep = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg::new(RoutingPolicy::RoundRobin),
        );
        assert!(rep.jain > 0.99, "jain {}", rep.jain);
    }

    #[test]
    fn latency_exceeds_bare_service_time() {
        let (env, reg, eps, invs) = setup();
        let rep = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg::new(RoutingPolicy::Locality),
        );
        // Minimum possible latency: transfer in + exec + transfer out > 0.
        for &l in &rep.latencies_s {
            assert!(l > 0.0);
        }
    }

    #[test]
    fn single_endpoint_queues() {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut reg = FunctionRegistry::new();
        // Heavy function: 60 Gflop on a CloudVm core (3.75e10 f/s) ~ 1.6s.
        let f = reg.register("heavy", 6e10, 1 << 10, 1 << 10);
        let cloud = env.fleet.in_tier(Tier::Cloud);
        let eps = endpoints_on(&env, &cloud[..1]);
        let invs: Vec<Invocation> = (0..64)
            .map(|_| Invocation {
                arrival: SimTime::ZERO,
                origin: built.edges[0],
                function: f,
            })
            .collect();
        let rep = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg::new(RoutingPolicy::RoundRobin),
        );
        assert_eq!(rep.completed, 64);
        let (p50, _, p99) = rep.latency_percentiles();
        // With more work than slots, late invocations wait: p99 >> p50.
        assert!(p99 > p50 * 1.5, "no queueing visible: p50={p50} p99={p99}");
    }

    #[test]
    fn endpoints_on_empty_device_list_is_empty() {
        let (env, _, _, _) = setup();
        assert!(endpoints_on(&env, &[]).is_empty());
    }

    #[test]
    fn endpoints_on_preserves_order_and_slots() {
        let (env, _, _, _) = setup();
        let mut devices = env.fleet.in_tier(Tier::Cloud);
        devices.extend(env.fleet.in_tier(Tier::Fog));
        // Scramble the input order: ids must still be consecutive and the
        // device order must be preserved exactly (site pools are built
        // from these indices).
        devices.reverse();
        let eps = endpoints_on(&env, &devices);
        assert_eq!(eps.len(), devices.len());
        for (i, ep) in eps.iter().enumerate() {
            assert_eq!(ep.id, EndpointId(i as u32));
            assert_eq!(ep.device, devices[i]);
            assert_eq!(ep.slots, env.fleet.device(devices[i]).spec.cores);
            assert!(ep.slots > 0);
        }
        // Deterministic: same input, same output.
        let again = endpoints_on(&env, &devices);
        for (a, b) in eps.iter().zip(again.iter()) {
            assert_eq!((a.id, a.device, a.slots), (b.id, b.device, b.slots));
        }
    }

    #[test]
    fn endpoints_on_tier_without_devices_is_empty() {
        let (env, _, _, _) = setup();
        // Sensor nodes carry no fleet devices in the standard fleet.
        let sensors = env.fleet.in_tier(Tier::Sensor);
        let eps = endpoints_on(&env, &sensors);
        assert_eq!(eps.len(), sensors.len());
        // If the tier is populated this still checks slot wiring; if not,
        // the empty list must come back empty rather than panic.
        for ep in &eps {
            assert!(ep.slots > 0);
        }
    }

    #[test]
    fn latency_histogram_matches_exact_percentiles_within_bucket_error() {
        let (env, reg, eps, invs) = setup();
        let rep = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg::new(RoutingPolicy::Locality),
        );
        let (p50, p95, p99) = rep.latency_percentiles();
        for (q, exact) in [(0.50, p50), (0.95, p95), (0.99, p99)] {
            let est_s = rep.latency_quantile_ns(q) as f64 / 1e9;
            // The log₂ histogram documents ~2× relative error; allow a
            // little slack for interpolation at bucket edges.
            assert!(
                est_s <= exact * 2.5 + 1e-9 && est_s >= exact / 2.5 - 1e-9,
                "q={q}: histogram {est_s} vs exact {exact}"
            );
        }
        assert_eq!(rep.latency_histogram().count, rep.completed);
    }

    #[test]
    fn telemetry_export_equals_report_histogram() {
        let (env, reg, eps, invs) = setup();
        let tele = std::rc::Rc::new(continuum_obs::Telemetry::new(false));
        let rep = continuum_obs::with_ambient(&tele, || {
            run_fabric(
                &env,
                &reg,
                &eps,
                &invs,
                &FederationCfg::new(RoutingPolicy::RoundRobin),
            )
        });
        let snap = tele.metrics.snapshot();
        let exported = snap.histogram("fabric.latency").expect("exported");
        // Bit-for-bit the same histogram: one shared construction path.
        assert_eq!(*exported, rep.latency_histogram());
    }
}

#[cfg(test)]
mod cold_tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec, Tier};
    use continuum_sim::SimDuration;

    fn setup() -> (Env, FunctionRegistry, Vec<Endpoint>) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut reg = FunctionRegistry::new();
        reg.register("f", 1e9, 1 << 10, 1 << 10);
        let eps = endpoints_on(&env, &env.fleet.in_tier(Tier::Cloud));
        (env, reg, eps)
    }

    fn sparse_invocations(env: &Env, gap_s: f64, n: usize) -> Vec<Invocation> {
        let origin = env.fleet.devices()[0].node;
        (0..n)
            .map(|i| Invocation {
                arrival: SimTime::from_secs_f64(i as f64 * gap_s),
                origin,
                function: FunctionId(0),
            })
            .collect()
    }

    #[test]
    fn cold_start_adds_latency_to_sparse_traffic() {
        let (env, reg, eps) = setup();
        let invs = sparse_invocations(&env, 30.0, 10);
        let warm = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg::new(RoutingPolicy::RoundRobin),
        );
        let cold = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg {
                cold: Some(ColdStart {
                    cold_time: SimDuration::from_secs(2),
                    keep_warm: SimDuration::from_secs(5),
                }),
                ..FederationCfg::new(RoutingPolicy::RoundRobin)
            },
        );
        // 30 s gaps with a 5 s keep-warm: every invocation boots cold.
        let (w50, _, _) = warm.latency_percentiles();
        let (c50, _, _) = cold.latency_percentiles();
        assert!((c50 - w50 - 2.0).abs() < 0.01, "warm {w50} cold {c50}");
    }

    #[test]
    fn keep_warm_amortizes_bursts() {
        let (env, reg, eps) = setup();
        // A tight burst: only the first invocation per endpoint boots.
        let invs = sparse_invocations(&env, 0.01, 20);
        let cold = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg {
                cold: Some(ColdStart {
                    cold_time: SimDuration::from_secs(2),
                    keep_warm: SimDuration::from_secs(60),
                }),
                ..FederationCfg::new(RoutingPolicy::RoundRobin)
            },
        );
        let boots = cold.latencies_s.iter().filter(|&&l| l > 2.0).count();
        // At most one boot per endpoint touched.
        assert!(
            boots <= eps.len(),
            "boots {boots} > endpoints {}",
            eps.len()
        );
        assert!(boots >= 1);
    }
}

#[cfg(test)]
mod autoscale_tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec, Tier};
    use continuum_sim::Rng;

    fn setup() -> (Env, FunctionRegistry, Vec<Endpoint>) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut reg = FunctionRegistry::new();
        reg.register("f", 2e10, 100 << 10, 1 << 10);
        let eps = endpoints_on(&env, &env.fleet.in_tier(Tier::Cloud));
        (env, reg, eps)
    }

    fn bursty(env: &Env, n: usize, seed: u64) -> Vec<Invocation> {
        // Three dense bursts separated by long idle gaps.
        let origin = env.fleet.devices()[0].node;
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|i| {
                let burst = i / (n / 3).max(1);
                let t = burst as f64 * 120.0 + rng.range_f64(0.0, 2.0);
                Invocation {
                    arrival: SimTime::from_secs_f64(t),
                    origin,
                    function: FunctionId(0),
                }
            })
            .collect()
    }

    #[test]
    fn autoscaling_cuts_provisioning_cost() {
        let (env, reg, eps) = setup();
        let invs = bursty(&env, 90, 5);
        let fixed = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg::new(RoutingPolicy::LeastOutstanding),
        );
        let elastic = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg {
                autoscale: Some(Autoscale { min_slots: 1 }),
                ..FederationCfg::new(RoutingPolicy::LeastOutstanding)
            },
        );
        assert_eq!(elastic.completed, invs.len() as u64);
        // Bursty-idle traffic: elastic provisioning uses a fraction of the
        // static slot-seconds.
        assert!(
            elastic.slot_seconds < fixed.slot_seconds * 0.5,
            "elastic {} vs fixed {}",
            elastic.slot_seconds,
            fixed.slot_seconds
        );
        // And the latency price is bounded (slots grow one arrival at a
        // time, so bursts queue briefly).
        let (_, _, p99_fixed) = fixed.latency_percentiles();
        let (_, _, p99_elastic) = elastic.latency_percentiles();
        assert!(
            p99_elastic < p99_fixed * 10.0,
            "elastic latency blew up: {p99_elastic} vs {p99_fixed}"
        );
    }

    #[test]
    fn static_slot_seconds_equals_capacity_times_span() {
        let (env, reg, eps) = setup();
        let invs = bursty(&env, 30, 7);
        let rep = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg::new(RoutingPolicy::RoundRobin),
        );
        let total_slots: u32 = eps.iter().map(|e| e.slots).sum();
        let expected = total_slots as f64 * rep.end_time.as_secs_f64();
        assert!((rep.slot_seconds - expected).abs() < 1e-6 * expected);
    }

    #[test]
    fn elastic_never_exceeds_declared_slots() {
        let (env, reg, eps) = setup();
        // Overload one endpoint hard.
        let invs: Vec<Invocation> = (0..200)
            .map(|_| Invocation {
                arrival: SimTime::ZERO,
                origin: env.fleet.devices()[0].node,
                function: FunctionId(0),
            })
            .collect();
        let one = vec![eps[0].clone()];
        let rep = run_fabric(
            &env,
            &reg,
            &one,
            &invs,
            &FederationCfg {
                autoscale: Some(Autoscale { min_slots: 1 }),
                ..FederationCfg::new(RoutingPolicy::RoundRobin)
            },
        );
        assert_eq!(rep.completed, 200);
        // The integral cannot exceed full provisioning of the one endpoint.
        let cap = eps[0].slots as f64 * rep.end_time.as_secs_f64();
        assert!(rep.slot_seconds <= cap * (1.0 + 1e-9));
    }

    #[test]
    fn shrink_during_backlog_never_strands_running_work() {
        // Regression guard on settle/shrink ordering: when the queue
        // drains while many invocations still *run*, the scale-down in
        // ExecDone clamps to `busy.max(floor)` — shrinking below the
        // running count would strand live work (busy > active would
        // underflow accounting and stall the pool).
        let (env, reg, eps) = setup();
        let one = vec![eps[0].clone()];
        assert!(one[0].slots >= 2, "test needs a multi-slot endpoint");
        // A burst exactly fills the pool, then nothing else arrives: the
        // queue is empty from the first ExecDone onward while slots - 1
        // invocations are still running.
        let n = one[0].slots as usize;
        let invs: Vec<Invocation> = (0..n)
            .map(|_| Invocation {
                arrival: SimTime::ZERO,
                origin: env.fleet.devices()[0].node,
                function: FunctionId(0),
            })
            .collect();
        let rep = run_fabric(
            &env,
            &reg,
            &one,
            &invs,
            &FederationCfg {
                autoscale: Some(Autoscale { min_slots: 1 }),
                ..FederationCfg::new(RoutingPolicy::RoundRobin)
            },
        );
        assert_eq!(rep.completed, n as u64, "shrink stranded running work");
        // Active capacity must have covered every running invocation for
        // its full execution: slot-seconds >= total execution seconds.
        let dev = &env.fleet.device(one[0].device);
        let spec = reg.get(FunctionId(0));
        let exec_s = dev
            .spec
            .compute_time_parallel(spec.work_flops, spec.parallelism)
            .as_secs_f64();
        let min_work = exec_s * n as f64;
        assert!(
            rep.slot_seconds >= min_work * (1.0 - 1e-9),
            "slot-seconds {} < running work {min_work}: pool shrank under live work",
            rep.slot_seconds
        );
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec, Tier};
    use continuum_sim::{FaultKind, SimDuration};

    fn setup() -> (Env, FunctionRegistry, Vec<Endpoint>) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut reg = FunctionRegistry::new();
        // ~1.3 s per invocation on a CloudVm core.
        reg.register("f", 5e10, 100 << 10, 1 << 10);
        let eps = endpoints_on(&env, &env.fleet.in_tier(Tier::Cloud));
        (env, reg, eps)
    }

    fn steady(env: &Env, n: usize, gap_s: f64) -> Vec<Invocation> {
        let origin = env.fleet.devices()[0].node;
        (0..n)
            .map(|i| Invocation {
                arrival: SimTime::from_secs_f64(i as f64 * gap_s),
                origin,
                function: FunctionId(0),
            })
            .collect()
    }

    fn faults_with(schedule: FaultSchedule) -> EndpointFaults {
        EndpointFaults {
            schedule,
            heartbeat: SimDuration::from_millis(500),
            backoff: Backoff::default(),
            seed: 9,
        }
    }

    #[test]
    fn no_faults_matches_fault_free_run() {
        let (env, reg, eps) = setup();
        let invs = steady(&env, 40, 0.25);
        let plain = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg::new(RoutingPolicy::LeastOutstanding),
        );
        let faulty = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg {
                faults: Some(faults_with(FaultSchedule::new())),
                ..FederationCfg::new(RoutingPolicy::LeastOutstanding)
            },
        );
        assert_eq!(plain.completed, faulty.completed);
        assert_eq!(plain.latencies_s, faulty.latencies_s);
        assert_eq!(plain.end_time, faulty.end_time);
        assert_eq!(faulty.reroutes, 0);
        assert_eq!(faulty.lost_work_s, 0.0);
    }

    #[test]
    fn crash_displaces_work_to_survivors() {
        let (env, reg, eps) = setup();
        assert!(eps.len() >= 2);
        let invs = steady(&env, 60, 0.1);
        // Crash endpoint 0 mid-run, recover it much later.
        let mut schedule = FaultSchedule::new();
        schedule.crash_and_recover(
            FaultKind::EndpointCrash,
            0,
            SimTime::from_secs(2),
            SimDuration::from_secs(300),
        );
        let rep = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg {
                faults: Some(faults_with(schedule)),
                ..FederationCfg::new(RoutingPolicy::RoundRobin)
            },
        );
        // Everything completes (survivors absorb the displaced work)...
        assert_eq!(rep.completed + rep.dropped, invs.len() as u64);
        assert_eq!(rep.dropped, 0, "survivors should absorb everything");
        // ...some of it visibly re-routed, with destroyed execution time.
        assert!(rep.reroutes > 0, "crash mid-run must displace work");
        assert!(rep.retries >= rep.reroutes);
        assert!(rep.lost_work_s > 0.0, "running work was killed");
    }

    #[test]
    fn recovery_before_detection_restarts_in_place() {
        let (env, reg, eps) = setup();
        let one = vec![eps[0].clone()];
        let invs = steady(&env, 4, 0.05);
        // Down for 100 ms, detection takes 500 ms: the broker never
        // notices; orphans restart on the recovered endpoint.
        let mut schedule = FaultSchedule::new();
        schedule.crash_and_recover(
            FaultKind::EndpointCrash,
            0,
            SimTime::from_secs(1),
            SimDuration::from_millis(100),
        );
        let rep = run_fabric(
            &env,
            &reg,
            &one,
            &invs,
            &FederationCfg {
                faults: Some(faults_with(schedule)),
                ..FederationCfg::new(RoutingPolicy::RoundRobin)
            },
        );
        assert_eq!(rep.completed, invs.len() as u64);
        assert_eq!(rep.reroutes, 0, "nothing re-routed: crash was undetected");
    }

    #[test]
    fn all_endpoints_down_backs_off_until_recovery() {
        let (env, reg, eps) = setup();
        let one = vec![eps[0].clone()];
        let invs = steady(&env, 3, 0.01);
        // The only endpoint dies before arrivals and recovers at t=30s.
        let mut schedule = FaultSchedule::new();
        schedule.crash_and_recover(
            FaultKind::EndpointCrash,
            0,
            SimTime::from_millis(1),
            SimDuration::from_secs(30),
        );
        let rep = run_fabric(
            &env,
            &reg,
            &one,
            &invs,
            &FederationCfg {
                faults: Some(faults_with(schedule)),
                ..FederationCfg::new(RoutingPolicy::Locality)
            },
        );
        assert_eq!(
            rep.completed + rep.dropped,
            invs.len() as u64,
            "conservation"
        );
        assert_eq!(rep.completed, invs.len() as u64, "work survives the outage");
        // Latencies reflect waiting out the 30 s outage.
        let (p50, _, _) = rep.latency_percentiles();
        assert!(p50 > 25.0, "p50 {p50} should include the outage");
    }

    #[test]
    fn unrecovered_outage_drops_after_max_retries() {
        let (env, reg, eps) = setup();
        let one = vec![eps[0].clone()];
        let invs = steady(&env, 2, 0.01);
        // Crash with no recovery: a hand-built schedule may strand work;
        // bounded retries turn that into explicit drops, not a hang.
        let mut schedule = FaultSchedule::new();
        schedule.push(SimTime::from_millis(1), FaultKind::EndpointCrash, 0);
        let mut faults = faults_with(schedule);
        faults.backoff.max_retries = 3;
        let rep = run_fabric(
            &env,
            &reg,
            &one,
            &invs,
            &FederationCfg {
                faults: Some(faults),
                ..FederationCfg::new(RoutingPolicy::RoundRobin)
            },
        );
        assert_eq!(rep.completed, 0);
        assert_eq!(rep.dropped, invs.len() as u64);
    }

    #[test]
    fn backoff_delays_are_capped_and_monotone_in_expectation() {
        let b = Backoff {
            base: SimDuration::from_millis(100),
            cap: SimDuration::from_secs(5),
            jitter: 0.0,
            max_retries: 32,
        };
        let mut rng = Rng::new(1);
        let d0 = b.delay(0, &mut rng);
        let d3 = b.delay(3, &mut rng);
        let d20 = b.delay(20, &mut rng);
        assert_eq!(d0, SimDuration::from_millis(100));
        assert_eq!(d3, SimDuration::from_millis(800));
        assert_eq!(d20, SimDuration::from_secs(5), "cap applies");
        // Jitter perturbs but stays within ±jitter/2.
        let j = Backoff { jitter: 0.5, ..b };
        for attempt in 0..10 {
            let d = j.delay(attempt, &mut rng);
            let nominal = b.delay(attempt, &mut rng).as_secs_f64();
            let f = d.as_secs_f64() / nominal;
            assert!((0.75..=1.25).contains(&f), "jitter factor {f}");
        }
    }
}

#[cfg(test)]
mod admission_tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec, Tier};
    use continuum_sim::{FaultKind, SimDuration};

    fn setup() -> (Env, FunctionRegistry, Vec<Endpoint>) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut reg = FunctionRegistry::new();
        // ~1.6 s per invocation on a CloudVm core.
        reg.register("heavy", 6e10, 100 << 10, 1 << 10);
        let eps = endpoints_on(&env, &env.fleet.in_tier(Tier::Cloud));
        (env, reg, eps)
    }

    fn burst(env: &Env, n: usize, gap_s: f64) -> Vec<Invocation> {
        let origin = env.fleet.devices()[0].node;
        (0..n)
            .map(|i| Invocation {
                arrival: SimTime::from_secs_f64(i as f64 * gap_s),
                origin,
                function: FunctionId(0),
            })
            .collect()
    }

    #[test]
    fn bounded_backlog_rejects_and_conserves() {
        let (env, reg, eps) = setup();
        let one = vec![eps[0].clone()];
        // 200 near-simultaneous heavy invocations into one endpoint with
        // an in-system cap of 8: the first 8 are admitted, the rest
        // bounce off the gate.
        let invs = burst(&env, 200, 1e-6);
        let rep = run_fabric(
            &env,
            &reg,
            &one,
            &invs,
            &FederationCfg {
                admission: Some(Admission { max_outstanding: 8 }),
                ..FederationCfg::new(RoutingPolicy::RoundRobin)
            },
        );
        assert_eq!(rep.completed + rep.dropped + rep.rejected, 200);
        assert_eq!(rep.rejected, 192);
        assert_eq!(rep.completed, 8);
        assert_eq!(rep.dropped, 0);
    }

    #[test]
    fn unbounded_gate_is_a_noop() {
        let (env, reg, eps) = setup();
        let invs = burst(&env, 60, 0.05);
        let plain = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg::new(RoutingPolicy::LeastOutstanding),
        );
        let gated = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg {
                admission: Some(Admission {
                    max_outstanding: usize::MAX,
                }),
                ..FederationCfg::new(RoutingPolicy::LeastOutstanding)
            },
        );
        assert_eq!(gated.rejected, 0);
        assert_eq!(plain.completed, gated.completed);
        assert_eq!(plain.latencies_s, gated.latencies_s);
        assert_eq!(plain.end_time, gated.end_time);
    }

    #[test]
    fn conservation_holds_under_crashes_with_admission() {
        let (env, reg, eps) = setup();
        assert!(eps.len() >= 2);
        let invs = burst(&env, 120, 0.05);
        let mut schedule = FaultSchedule::new();
        schedule.crash_and_recover(
            FaultKind::EndpointCrash,
            0,
            SimTime::from_secs(1),
            SimDuration::from_secs(300),
        );
        let rep = run_fabric(
            &env,
            &reg,
            &eps,
            &invs,
            &FederationCfg {
                faults: Some(EndpointFaults {
                    schedule,
                    heartbeat: SimDuration::from_millis(500),
                    backoff: Backoff::default(),
                    seed: 9,
                }),
                admission: Some(Admission {
                    max_outstanding: 12,
                }),
                ..FederationCfg::new(RoutingPolicy::RoundRobin)
            },
        );
        // The cap bites under this burst, the crash displaces admitted
        // work, and every invocation is still accounted for exactly once.
        assert!(rep.rejected > 0, "cap of 12 should bounce arrivals");
        assert_eq!(
            rep.completed + rep.dropped + rep.rejected,
            invs.len() as u64
        );
    }
}
