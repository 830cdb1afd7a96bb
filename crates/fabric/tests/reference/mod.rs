//! The single-broker reference: a per-invocation broker loop written
//! independently of the federation, so identity tests can check a
//! one-site, batch-1 federation against it.
//!
//! It honours the [`FederationCfg`] fields a single broker knows —
//! policy, per-endpoint cold start, autoscale, endpoint faults, and
//! admission — and asserts that the federation-only ones (batching, warm
//! pools, site faults, health) are off. It emits no telemetry: identity
//! tests compare only the [`FabricReport`].

use continuum_fabric::{
    Endpoint, FabricReport, FederationCfg, FunctionRegistry, FunctionSpec, Invocation,
    RoutingPolicy,
};
use continuum_placement::Env;
use continuum_sim::{jain_fairness, EventQueue, FaultKind, Rng, SimDuration, SimTime};
use std::collections::VecDeque;

enum Ev {
    Arrive(usize),
    /// Request payload landed at `ep` (stale on `epoch` mismatch).
    InputReady {
        ep: usize,
        inv: usize,
        epoch: u32,
    },
    /// Execution finished (stale if the attempt was killed).
    ExecDone {
        ep: usize,
        inv: usize,
        epoch: u32,
    },
    ResponseBack {
        inv: usize,
    },
    EpCrash(usize),
    EpRecover(usize),
    /// Heartbeat timeout for crash generation `gen` of `ep`.
    EpDetect {
        ep: usize,
        gen: u32,
    },
    /// A displaced invocation's backoff expired; pick a new endpoint.
    Reroute(usize),
}

/// Per-endpoint elastic slot accounting.
struct Scale {
    active: u32,
    busy: u32,
    slot_seconds: f64,
    last_change: SimTime,
}

impl Scale {
    fn settle(&mut self, now: SimTime) {
        self.slot_seconds += self.active as f64 * now.since(self.last_change).as_secs_f64();
        self.last_change = now;
    }
}

struct Ep {
    scale: Scale,
    waiting: VecDeque<usize>,
    outstanding: u32,
    warm_until: SimTime,
    /// Slot-availability estimates for the Locality policy.
    lane_est: Vec<SimTime>,
    up: bool,
    /// Down and past its detection heartbeat: excluded from routing.
    known_down: bool,
    gen: u32,
    running: Vec<usize>,
    orphans: Vec<usize>,
    completions: u64,
}

struct Inv {
    assigned: usize,
    /// Bumped when the running attempt is killed or the invocation is
    /// re-routed; in-flight events carrying an older epoch are ignored.
    epoch: u32,
    attempts: u32,
    exec_start: SimTime,
    done_at: Option<SimTime>,
}

struct Broker<'a> {
    env: &'a Env,
    registry: &'a FunctionRegistry,
    endpoints: &'a [Endpoint],
    invocations: &'a [Invocation],
    cfg: &'a FederationCfg,
    queue: EventQueue<Ev>,
    eps: Vec<Ep>,
    invs: Vec<Inv>,
    rr_next: usize,
    jitter: Rng,
    latencies: Vec<f64>,
    reroutes: u64,
    retries: u64,
    dropped: u64,
    rejected: u64,
    lost_work_s: f64,
}

impl Broker<'_> {
    /// Slots an endpoint keeps active at rest (start and recovery).
    fn floor_slots(&self, ep: usize) -> u32 {
        match self.cfg.autoscale {
            Some(a) => a.min_slots.min(self.endpoints[ep].slots).max(1),
            None => self.endpoints[ep].slots,
        }
    }

    fn exec_time(&self, ep: usize, spec: &FunctionSpec) -> SimDuration {
        self.env
            .fleet
            .device(self.endpoints[ep].device)
            .spec
            .compute_time_parallel(spec.work_flops, spec.parallelism)
    }

    /// Pick an endpoint that is not known-down under the policy; `None`
    /// iff every endpoint is known-down.
    fn choose(&mut self, spec: &FunctionSpec, i: usize, now: SimTime) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.eps.len())
            .filter(|&e| !self.eps[e].known_down)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let origin = self.invocations[i].origin;
        Some(match self.cfg.policy {
            RoutingPolicy::RoundRobin => {
                let ep = candidates[self.rr_next % candidates.len()];
                self.rr_next += 1;
                ep
            }
            RoutingPolicy::LeastOutstanding => candidates
                .iter()
                .copied()
                .min_by_key(|&e| (self.eps[e].outstanding, e))
                .expect("candidates non-empty"),
            RoutingPolicy::Locality => {
                candidates
                    .iter()
                    .copied()
                    .map(|e| {
                        let ep_node = self.env.fleet.device(self.endpoints[e].device).node;
                        let path = |a, b| self.env.path(a, b).expect("disconnected topology");
                        let tin = path(origin, ep_node).transfer_time(spec.in_bytes);
                        let tout = path(ep_node, origin).transfer_time(spec.out_bytes);
                        let mut lanes = self.eps[e].lane_est.clone();
                        lanes.sort_unstable();
                        let start = (now + tin).max(lanes[0]);
                        (start + self.exec_time(e, spec) + tout, e)
                    })
                    .min()
                    .expect("candidates non-empty")
                    .1
            }
        })
    }

    /// Assign `i` to endpoint `ep` and launch its request payload.
    fn assign(&mut self, i: usize, ep: usize, spec: &FunctionSpec, now: SimTime) {
        self.invs[i].assigned = ep;
        self.eps[ep].outstanding += 1;
        let exec = self.exec_time(ep, spec);
        let node = self.env.fleet.device(self.endpoints[ep].device).node;
        let tin = self
            .env
            .path(self.invocations[i].origin, node)
            .expect("disconnected topology")
            .transfer_time(spec.in_bytes);
        let lanes = &mut self.eps[ep].lane_est;
        let (k, _) = lanes
            .iter()
            .enumerate()
            .min_by_key(|&(i, t)| (*t, i))
            .expect("non-empty lanes");
        lanes[k] = (now + tin).max(lanes[k]) + exec;
        let epoch = self.invs[i].epoch;
        self.queue
            .schedule_at(now + tin, Ev::InputReady { ep, inv: i, epoch });
    }

    /// Route `i` (fresh or displaced) or back it off when nothing is up.
    fn route(&mut self, i: usize, spec: &FunctionSpec, now: SimTime, rerouted: bool) {
        match self.choose(spec, i, now) {
            Some(ep) => {
                if rerouted {
                    self.reroutes += 1;
                    self.invs[i].epoch += 1;
                }
                self.assign(i, ep, spec, now);
            }
            None => self.backoff_or_drop(i, now),
        }
    }

    /// One backoff round for a displaced invocation (or give it up).
    fn backoff_or_drop(&mut self, i: usize, now: SimTime) {
        let b = self
            .cfg
            .faults
            .as_ref()
            .expect("displacement implies faults")
            .backoff;
        if self.invs[i].attempts >= b.max_retries {
            self.dropped += 1;
        } else {
            let delay = b.delay(self.invs[i].attempts, &mut self.jitter);
            self.invs[i].attempts += 1;
            self.retries += 1;
            self.queue.schedule_at(now + delay, Ev::Reroute(i));
        }
    }

    /// Start queued work on `ep` while slots are free.
    fn try_start(&mut self, ep: usize, now: SimTime) {
        if !self.eps[ep].up {
            return;
        }
        let registry = self.registry;
        while self.eps[ep].scale.busy < self.eps[ep].scale.active {
            let Some(inv) = self.eps[ep].waiting.pop_front() else {
                break;
            };
            self.eps[ep].scale.busy += 1;
            let mut exec = self.exec_time(ep, registry.get(self.invocations[inv].function));
            if let Some(cs) = self.cfg.cold {
                // Endpoint-level warmth: one cold boot warms the pool.
                if now > self.eps[ep].warm_until {
                    exec += cs.cold_time;
                }
                self.eps[ep].warm_until = (now + exec) + cs.keep_warm;
            }
            self.invs[inv].exec_start = now;
            self.eps[ep].running.push(inv);
            let epoch = self.invs[inv].epoch;
            self.queue
                .schedule_at(now + exec, Ev::ExecDone { ep, inv, epoch });
        }
    }

    fn step(&mut self, now: SimTime, ev: Ev) {
        let registry = self.registry;
        match ev {
            Ev::Arrive(i) => {
                // Backpressure gate: only new arrivals pass here.
                if let Some(a) = self.cfg.admission {
                    let in_system: usize = self.eps.iter().map(|e| e.outstanding as usize).sum();
                    if in_system >= a.max_outstanding {
                        self.rejected += 1;
                        return;
                    }
                }
                // An id the registry does not know is dropped here, so
                // a re-route always finds its spec.
                let Some(spec) = registry.try_get(self.invocations[i].function) else {
                    self.dropped += 1;
                    return;
                };
                self.route(i, spec, now, false);
            }
            Ev::Reroute(i) => {
                let spec = registry.get(self.invocations[i].function);
                self.route(i, spec, now, true);
            }
            Ev::InputReady { ep, inv, epoch } => {
                if epoch != self.invs[inv].epoch {
                    return; // re-routed while the payload was in flight
                }
                if self.eps[ep].known_down {
                    self.eps[ep].outstanding -= 1;
                    self.backoff_or_drop(inv, now);
                    return;
                }
                self.eps[ep].waiting.push_back(inv);
                // Elastic scale-up: queued work and every slot busy.
                if self.cfg.autoscale.is_some() && self.eps[ep].up {
                    let slots = self.endpoints[ep].slots;
                    let st = &mut self.eps[ep].scale;
                    if st.busy >= st.active && st.active < slots {
                        st.settle(now);
                        st.active += 1;
                    }
                }
                self.try_start(ep, now);
            }
            Ev::ExecDone { ep, inv, epoch } => {
                if epoch != self.invs[inv].epoch {
                    return; // this attempt was killed by a crash
                }
                self.eps[ep].scale.busy -= 1;
                let pos = self.eps[ep]
                    .running
                    .iter()
                    .position(|&r| r == inv)
                    .expect("finished invocation is running");
                self.eps[ep].running.swap_remove(pos);
                let spec = registry.get(self.invocations[inv].function);
                let ep_node = self.env.fleet.device(self.endpoints[ep].device).node;
                let tout = self
                    .env
                    .path(ep_node, self.invocations[inv].origin)
                    .expect("disconnected topology")
                    .transfer_time(spec.out_bytes);
                self.queue.schedule_at(now + tout, Ev::ResponseBack { inv });
                self.try_start(ep, now);
                // Elastic scale-down: queue drained, spare slots idle.
                if self.cfg.autoscale.is_some() && self.eps[ep].waiting.is_empty() {
                    let floor = self.floor_slots(ep);
                    let st = &mut self.eps[ep].scale;
                    let target = st.busy.max(floor);
                    if target < st.active {
                        st.settle(now);
                        st.active = target;
                    }
                }
            }
            Ev::ResponseBack { inv } => {
                let ep = self.invs[inv].assigned;
                self.eps[ep].outstanding -= 1;
                self.eps[ep].completions += 1;
                self.invs[inv].done_at = Some(now);
                let arrival = self.invocations[inv].arrival;
                self.latencies.push(now.since(arrival).as_secs_f64());
            }
            Ev::EpCrash(ep) => {
                if !self.eps[ep].up {
                    return;
                }
                let e = &mut self.eps[ep];
                e.up = false;
                e.gen += 1;
                for inv in std::mem::take(&mut e.running) {
                    self.lost_work_s += now.since(self.invs[inv].exec_start).as_secs_f64();
                    self.invs[inv].epoch += 1;
                    e.orphans.push(inv);
                }
                e.scale.settle(now);
                e.scale.active = 0;
                e.scale.busy = 0;
                e.warm_until = SimTime::ZERO; // recovery comes back cold
                let gen = e.gen;
                let hb = self.cfg.faults.as_ref().expect("crash implies faults");
                self.queue
                    .schedule_at(now + hb.heartbeat, Ev::EpDetect { ep, gen });
            }
            Ev::EpDetect { ep, gen } => {
                if self.eps[ep].up || self.eps[ep].gen != gen {
                    return; // recovered (or crashed again) meanwhile
                }
                self.eps[ep].known_down = true;
                let mut displaced: Vec<usize> = self.eps[ep].orphans.drain(..).collect();
                displaced.extend(self.eps[ep].waiting.drain(..));
                for inv in displaced {
                    self.eps[ep].outstanding -= 1;
                    self.backoff_or_drop(inv, now);
                }
            }
            Ev::EpRecover(ep) => {
                if self.eps[ep].up {
                    return;
                }
                let active = self.floor_slots(ep);
                let e = &mut self.eps[ep];
                e.up = true;
                e.known_down = false;
                e.scale.settle(now);
                e.scale.active = active;
                // Orphans not yet detected restart here: their payloads
                // already live on the endpoint.
                let orphans = std::mem::take(&mut e.orphans);
                e.waiting.extend(orphans);
                self.try_start(ep, now);
            }
        }
    }
}

/// Run `invocations` through the single-broker reference loop.
///
/// # Panics
/// If `cfg` asks for batching, a warm pool, site faults, or health.
pub fn single_broker(
    env: &Env,
    registry: &FunctionRegistry,
    endpoints: &[Endpoint],
    invocations: &[Invocation],
    cfg: &FederationCfg,
) -> FabricReport {
    assert!(!endpoints.is_empty(), "no endpoints");
    assert_eq!(cfg.batch, 1, "the single broker dispatches per invocation");
    assert!(
        cfg.warm_pool.is_none() && cfg.site_faults.is_none() && cfg.health.is_none(),
        "warm pools, site faults and health are federation-only"
    );
    let mut b = Broker {
        env,
        registry,
        endpoints,
        invocations,
        cfg,
        queue: EventQueue::new(),
        eps: Vec::new(),
        invs: invocations
            .iter()
            .map(|_| Inv {
                assigned: usize::MAX,
                epoch: 0,
                attempts: 0,
                exec_start: SimTime::ZERO,
                done_at: None,
            })
            .collect(),
        rr_next: 0,
        jitter: Rng::new(cfg.faults.as_ref().map_or(0, |f| f.seed)),
        latencies: Vec::with_capacity(invocations.len()),
        reroutes: 0,
        retries: 0,
        dropped: 0,
        rejected: 0,
        lost_work_s: 0.0,
    };
    b.eps = (0..endpoints.len())
        .map(|e| Ep {
            scale: Scale {
                active: b.floor_slots(e),
                busy: 0,
                slot_seconds: 0.0,
                last_change: SimTime::ZERO,
            },
            waiting: VecDeque::new(),
            outstanding: 0,
            warm_until: SimTime::ZERO,
            lane_est: vec![SimTime::ZERO; endpoints[e].slots as usize],
            up: true,
            known_down: false,
            gen: 0,
            running: Vec::new(),
            orphans: Vec::new(),
            completions: 0,
        })
        .collect();
    for (i, inv) in invocations.iter().enumerate() {
        b.queue.schedule_at(inv.arrival, Ev::Arrive(i));
    }
    if let Some(f) = &cfg.faults {
        for ev in f.schedule.events() {
            let ep = ev.target as usize;
            let kind = match ev.kind {
                FaultKind::EndpointCrash => Ev::EpCrash(ep),
                FaultKind::EndpointRecover => Ev::EpRecover(ep),
                _ => continue, // device/link faults are not the broker's
            };
            assert!(ep < endpoints.len(), "fault targets a missing endpoint");
            b.queue.schedule_at(ev.at, kind);
        }
    }
    while let Some((now, ev)) = b.queue.pop() {
        b.step(now, ev);
    }

    let end_time = b
        .invs
        .iter()
        .filter_map(|s| s.done_at)
        .max()
        .unwrap_or(SimTime::ZERO);
    let completed = b.latencies.len() as u64;
    let span = end_time.as_secs_f64();
    let slot_seconds: f64 = b
        .eps
        .iter_mut()
        .map(|e| {
            e.scale.settle(end_time);
            e.scale.slot_seconds
        })
        .sum();
    let per_endpoint: Vec<u64> = b.eps.iter().map(|e| e.completions).collect();
    FabricReport {
        completed,
        throughput_hz: if span > 0.0 {
            completed as f64 / span
        } else {
            0.0
        },
        jain: jain_fairness(&per_endpoint.iter().map(|&c| c as f64).collect::<Vec<_>>()),
        per_endpoint,
        latencies_s: b.latencies,
        end_time,
        slot_seconds,
        reroutes: b.reroutes,
        retries: b.retries,
        dropped: b.dropped,
        rejected: b.rejected,
        lost_work_s: b.lost_work_s,
    }
}
