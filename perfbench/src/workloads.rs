//! The four benchmark workloads: for each, a seeded world built in the
//! untimed set-up and one timed *pass*, which returns a digest of
//! everything the pass produced.
//!
//! The program is driven only through its public entry points and
//! receives only generated inputs; the thread count is set from outside
//! with a rayon pool (see `crate::run`).

use crate::digest::Digest;
use crate::probe::Probe;
use continuum_fabric::{
    endpoints_on, run_federation, sites_from_partition, Admission, Backoff, Endpoint,
    FederationCfg, FederationReport, FunctionRegistry, Invocation, RoutingPolicy, Site,
    SiteFaultEvent, SiteFaults, WarmPool,
};
use continuum_model::{standard_fleet, DeviceClass, DeviceId};
use continuum_net::{continuum, continuum_regions, BuiltContinuum, ContinuumSpec, RegionPartition};
use continuum_net::{NodeId, Tier};
use continuum_obs::{HealthReport, Histogram};
use continuum_placement::{
    AnnealingPlacer, Env, HeftPlacer, OnlinePlacer, Placement, Placer, WeightedObjective,
};
use continuum_runtime::{
    simulate_open_loop, simulate_open_loop_sharded, FaultPlane, FaultSpec, OpenLoopOpts,
    OpenLoopReport, ShardOpts, StreamRequest,
};
use continuum_sim::{FaultProcess, FaultSchedule, FaultScheduleSpec, Rng, SimDuration, SimTime};
use continuum_workflow::{
    layered_random, open_loop_arrivals, ArrivalProcess, Dag, LayeredSpec, OpenLoopArrivals,
    OpenLoopSpec,
};

/// The seed whose outcome digests are committed in `golden.txt`.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PlanAnneal,
    StreamChaos,
    StreamPinned,
    FabricFederation,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::PlanAnneal,
        Kind::StreamChaos,
        Kind::StreamPinned,
        Kind::FabricFederation,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PlanAnneal => "plan_anneal",
            Kind::StreamChaos => "stream_chaos",
            Kind::StreamPinned => "stream_pinned",
            Kind::FabricFederation => "fabric_federation",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Input size. `Full` is what the benchmark times; `Tiny` runs every
/// code path of a workload in a fraction of a second, for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::Full, Scale::Tiny]
            .into_iter()
            .find(|x| x.name() == s)
    }

    fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// What one pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Digest of every latency, counter and placement.
    pub digest: u64,
    /// Model events: a count the input fixes, for `events_per_s`.
    pub events: u64,
    /// Conservation violations (empty when the pass is consistent).
    pub violations: Vec<String>,
    /// Layer counts read from the pass's own report.
    pub counts: Vec<(&'static str, f64)>,
}

/// What a pass returns: the program's own reports, as they came out.
/// The digest and the conservation checks are computed from them by
/// [`World::outcome`], outside the timed region.
pub enum Raw {
    /// HEFT then annealing placement of each DAG.
    Plan(Vec<[Placement; 2]>),
    /// The executor's report and the digest of every online placement.
    Chaos(OpenLoopReport, Digest),
    Pinned(OpenLoopReport),
    Fabric(FederationReport),
}

/// Which variant of a workload's pass to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The timed configuration.
    Main,
    /// `stream_pinned` on one shard: the cross-shard identity reference.
    OneShard,
}

/// A built workload: everything the pass needs, generated from the seed.
pub enum World {
    Plan(PlanWorld),
    Chaos(ChaosWorld),
    Pinned(PinnedWorld),
    Fabric(FabricWorld),
}

/// Independent sub-seed `salt` of the workload seed.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The 526-node continuum (8 fogs x 8 edges x 7 sensors, 4 clouds,
/// 2 HPC) or its tiny twin, with the standard fleet.
fn continuum_env(scale: Scale, probe: &Probe) -> (BuiltContinuum, ContinuumSpec, Env) {
    let spec = ContinuumSpec {
        fogs: scale.pick(8, 2),
        edges_per_fog: scale.pick(8, 2),
        sensors_per_edge: scale.pick(7, 2),
        ..ContinuumSpec::default()
    };
    let built = probe.span("net.build", None, || continuum(&spec));
    let env = probe.span("net.env_build", None, || {
        Env::new(built.topology.clone(), standard_fleet(&built))
    });
    (built, spec, env)
}

impl World {
    /// The untimed set-up: topology, `Env::new` (fleet plus transfer
    /// matrix), partition/sites, and input generation.
    pub fn build(kind: Kind, scale: Scale, seed: u64, probe: &Probe) -> World {
        match kind {
            Kind::PlanAnneal => World::Plan(PlanWorld::build(scale, seed, probe)),
            Kind::StreamChaos => World::Chaos(ChaosWorld::build(scale, seed, probe)),
            Kind::StreamPinned => World::Pinned(PinnedWorld::build(scale, seed, probe)),
            Kind::FabricFederation => World::Fabric(FabricWorld::build(scale, seed, probe)),
        }
    }

    /// One pass of the workload: only the program's work, what the
    /// timed passes measure.
    pub fn run(&self, arm: Arm, probe: &Probe) -> Raw {
        match self {
            World::Plan(w) => Raw::Plan(w.run(probe)),
            World::Chaos(w) => {
                let (r, placements) = w.run(probe);
                Raw::Chaos(r, placements)
            }
            World::Pinned(w) => Raw::Pinned(w.run(arm, probe)),
            World::Fabric(w) => Raw::Fabric(w.run(probe)),
        }
    }

    /// Digest and check what a pass of this world returned.
    pub fn outcome(&self, raw: &Raw) -> Outcome {
        match (self, raw) {
            (World::Plan(w), Raw::Plan(p)) => w.outcome(p),
            (World::Chaos(w), Raw::Chaos(r, placements)) => w.outcome(r, *placements),
            (World::Pinned(w), Raw::Pinned(r)) => w.outcome(r),
            (World::Fabric(w), Raw::Fabric(r)) => w.outcome(r),
            _ => unreachable!("a pass returns its own world's report"),
        }
    }

    /// A pass and its outcome, for checks that time nothing.
    pub fn pass(&self, arm: Arm, probe: &Probe) -> Outcome {
        self.outcome(&self.run(arm, probe))
    }

    /// Change the input in a way that must change the outcome: the
    /// planted divergence the identity checks are tested against.
    pub fn perturb(&mut self) {
        match self {
            World::Plan(w) => w.dags.swap(0, 1),
            World::Chaos(w) => w.arrival_seed ^= 1,
            World::Pinned(w) => w.arrival_seed ^= 1,
            World::Fabric(w) => drop(w.invocations.pop()),
        }
    }
}

// ---------------------------------------------------------------- plan

/// The planner on its own: HEFT, then simulated annealing, over a corpus
/// of data-heavy layered DAGs on the 526-node continuum.
pub struct PlanWorld {
    env: Env,
    dags: Vec<Dag>,
    anneal: AnnealingPlacer,
}

impl PlanWorld {
    fn build(scale: Scale, seed: u64, probe: &Probe) -> PlanWorld {
        let (built, _, env) = continuum_env(scale, probe);
        // Many mid-sized DAGs rather than a few large ones: a DAG's cost
        // depends on its random layer shape, and a large corpus keeps the
        // seed-to-seed variation of a pass's work small.
        let dags = probe.span("workflow.gen", None, || {
            let mut rng = Rng::new(sub_seed(seed, 1));
            (0..scale.pick(60, 2))
                .map(|i| {
                    layered_random(
                        &mut rng,
                        &LayeredSpec {
                            tasks: scale.pick(150, 30),
                            width: scale.pick(40, 20),
                            source: built.edges[i % built.edges.len()],
                            // ~100 MB items: transfers dominate compute,
                            // so placement trades locality for speed.
                            bytes_mu: (1e8f64).ln(),
                            ..LayeredSpec::default()
                        },
                    )
                })
                .collect()
        });
        let anneal = AnnealingPlacer {
            // Cost-aware: makespan plus dollars, so moves trade speed
            // against cloud occupancy and egress.
            objective: WeightedObjective {
                w_time: 1.0,
                w_energy: 0.0,
                w_cost: 1.0,
            },
            iters: scale.pick(250, 50),
            restarts: 2,
            seed: sub_seed(seed, 2),
            full_recompute: false,
        };
        PlanWorld { env, dags, anneal }
    }

    fn run(&self, probe: &Probe) -> Vec<[Placement; 2]> {
        let heft = HeftPlacer::default();
        self.dags
            .iter()
            .enumerate()
            .map(|(i, dag)| {
                let id = Some(i as u64);
                let h = probe.span("placement.heft", id, || heft.place(&self.env, dag));
                let a = probe.span("placement.anneal", id, || self.anneal.place(&self.env, dag));
                [h, a]
            })
            .collect()
    }

    fn outcome(&self, placed: &[[Placement; 2]]) -> Outcome {
        let mut d = Digest::default();
        let mut violations = Vec::new();
        let mut placements = 0u64;
        for (i, (dag, [h, a])) in self.dags.iter().zip(placed).enumerate() {
            for (label, p) in [("heft", h), ("anneal", a)] {
                if p.assignment.len() != dag.len() {
                    violations.push(format!(
                        "dag {i}: {label} placed {} of {} tasks",
                        p.assignment.len(),
                        dag.len()
                    ));
                }
                digest_placement(&mut d, p);
            }
            placements += dag.len() as u64;
        }
        let moves = self.moves();
        Outcome {
            digest: d.finish(),
            events: placements + moves,
            violations,
            // Not itself a reported metric: the divisor of
            // `placement.anneal_us_per_move`.
            counts: vec![("placement.anneal_moves", moves as f64)],
        }
    }

    fn moves(&self) -> u64 {
        self.dags.len() as u64 * u64::from(self.anneal.restarts) * u64::from(self.anneal.iters)
    }
}

fn digest_placement(d: &mut Digest, p: &Placement) {
    d.u64s(p.assignment.iter().map(|x| u64::from(x.0)));
}

// -------------------------------------------------------------- stream

/// The shared open-loop traffic shape: inference requests from every
/// sensor, Poisson arrivals, capped-Pareto request sizes.
fn stream_spec(
    built: &BuiltContinuum,
    requests: usize,
    rate_hz: f64,
    frame_bytes: u64,
    infer_flops: f64,
) -> OpenLoopSpec {
    OpenLoopSpec {
        sensors: built.sensors.clone(),
        requests,
        process: ArrivalProcess::Poisson { rate_hz },
        frame_bytes,
        infer_flops,
        size_alpha: Some(1.5),
    }
}

/// The lazy arrival source, with each pull timed as `workflow.arrival`.
struct TimedArrivals<'p> {
    inner: OpenLoopArrivals,
    probe: &'p Probe,
}

impl Iterator for TimedArrivals<'_> {
    type Item = (SimTime, Dag);

    fn next(&mut self) -> Option<(SimTime, Dag)> {
        self.probe
            .span("workflow.arrival", None, || self.inner.next())
    }
}

fn digest_histogram(d: &mut Digest, h: &Histogram) {
    d.u64s([h.count, h.sum_ns, h.min_ns, h.max_ns]);
    d.u64s(h.sparse_buckets().into_iter().flat_map(|(b, c)| [b, c]));
}

/// Digest every field of an open-loop report. `peak_record_buffer` is
/// left out when `cross_shard` is set: it is the largest single shard's
/// buffer and legitimately depends on the shard count.
fn digest_report(d: &mut Digest, r: &OpenLoopReport, cross_shard: bool) {
    d.u64s([
        r.offered,
        r.admitted,
        r.completed,
        r.rejected,
        r.peak_live as u64,
    ]);
    if !cross_shard {
        d.u64(r.peak_record_buffer as u64);
    }
    d.u64(r.end_time.0);
    digest_histogram(d, &r.latency);
    digest_histogram(d, &r.task_duration);
    d.u64s([
        r.tasks_executed,
        r.bytes_moved,
        r.transfers,
        r.failed_attempts,
        r.replacements,
        r.killed_attempts,
        r.device_crashes,
        r.link_failures,
    ]);
    d.f64(r.lost_work_s);
    d.u64s(r.tasks_by_device.iter().copied());
    d.f64(r.energy_j);
    d.f64(r.cost_usd);
    if let Some(h) = &r.health {
        digest_health(d, h);
    }
}

fn digest_health(d: &mut Digest, h: &HealthReport) {
    d.u64s([h.objective_ns, h.observed, h.violations]);
    for v in [
        h.burn_short,
        h.burn_long,
        h.burn_short_peak,
        h.burn_long_peak,
    ] {
        d.f64(v);
    }
    d.u64s([
        h.anomalies.len() as u64,
        h.anomalies_dropped,
        h.frames.len() as u64,
        h.frames_dropped,
    ]);
}

fn stream_violations(r: &OpenLoopReport, offered: usize) -> Vec<String> {
    let mut v = Vec::new();
    if r.offered != offered as u64 {
        v.push(format!(
            "offered {} of {offered} generated requests",
            r.offered
        ));
    }
    if r.completed + r.rejected != r.offered {
        v.push(format!(
            "completed {} + rejected {} != offered {}",
            r.completed, r.rejected, r.offered
        ));
    }
    v
}

fn stream_counts(r: &OpenLoopReport) -> Vec<(&'static str, f64)> {
    let good = r.tasks_executed - r.failed_attempts - r.killed_attempts;
    vec![
        ("runtime.transfers", r.transfers as f64),
        ("runtime.attempts", r.tasks_executed as f64),
        (
            "runtime.attempt_yield",
            good as f64 / r.tasks_executed.max(1) as f64,
        ),
        ("runtime.replacements", r.replacements as f64),
        ("runtime.peak_live", r.peak_live as f64),
        ("runtime.rejected", r.rejected as f64),
    ]
}

/// The default single-queue executor under open-loop load past the
/// knee, greedy online placement per arrival, and a device + link
/// crash/recover fault plane throughout.
pub struct ChaosWorld {
    env: Env,
    spec: OpenLoopSpec,
    arrival_seed: u64,
    plane: FaultPlane,
    max_live: usize,
}

impl ChaosWorld {
    fn build(scale: Scale, seed: u64, probe: &Probe) -> ChaosWorld {
        let (built, _, env) = continuum_env(scale, probe);
        // ~20% of arrivals bounce off the admission gate: just past the
        // knee, so the gate binds and hundreds of flows stay live.
        let (requests, rate_hz) = scale.pick((24_000, 240.0), (300, 100.0));
        let (spec, plane) = probe.span("workflow.gen", None, || {
            let spec = stream_spec(&built, requests, rate_hz, 1 << 20, 2e9);
            let span_s = requests as f64 / rate_hz;
            let schedule = FaultSchedule::generate(
                &FaultScheduleSpec {
                    horizon: SimDuration::from_secs_f64(span_s),
                    // Many short outages rather than a few long ones:
                    // the route cache and orphan re-placement see a
                    // steady churn, and no single unlucky crash of a
                    // backbone host decides how much work a seed does.
                    devices: FaultProcess {
                        population: env.fleet.len() as u32,
                        mttf_s: span_s * 2.0,
                        mttr_s: span_s * 0.005,
                    },
                    links: FaultProcess {
                        population: (env.topology.links().len() / 8).max(4) as u32,
                        mttf_s: span_s * 0.25,
                        mttr_s: span_s * 0.01,
                    },
                    ..FaultScheduleSpec::default()
                },
                sub_seed(seed, 3),
            );
            let plane = FaultPlane {
                schedule,
                detection: SimDuration::from_millis(250),
            };
            (spec, plane)
        });
        ChaosWorld {
            env,
            spec,
            arrival_seed: sub_seed(seed, 4),
            plane,
            max_live: scale.pick(256, 32),
        }
    }

    fn run(&self, probe: &Probe) -> (OpenLoopReport, Digest) {
        let env = &self.env;
        let mut placer = OnlinePlacer::continuum(env);
        // Each placement is folded into the digest as it is made: a few
        // words per request, cheaper than keeping every placement.
        let mut placements = Digest::default();
        let mut next_id = 0u64;
        let arrivals = TimedArrivals {
            inner: open_loop_arrivals(self.arrival_seed, &self.spec),
            probe,
        }
        .map(|(arrival, dag)| {
            let id = next_id;
            next_id += 1;
            let placement = probe.span("placement.online", Some(id), || {
                placer.place_request(env, &dag, arrival).0
            });
            digest_placement(&mut placements, &placement);
            StreamRequest {
                dag,
                placement,
                arrival,
            }
        });
        let opts = OpenLoopOpts {
            max_live: self.max_live,
            plane: Some(&self.plane),
            ..OpenLoopOpts::default()
        };
        let r = probe.span("runtime.open_loop", None, || {
            simulate_open_loop(env, arrivals, &opts)
        });
        (r, placements)
    }

    fn outcome(&self, r: &OpenLoopReport, placements: Digest) -> Outcome {
        let mut d = placements;
        digest_report(&mut d, r, false);
        Outcome {
            digest: d.finish(),
            events: r.offered + r.tasks_executed + r.transfers + self.plane.schedule.len() as u64,
            violations: stream_violations(r, self.spec.requests),
            counts: stream_counts(r),
        }
    }
}

/// Open-loop traffic through the pinned sharded executor at two shards,
/// with attempt-level fault retries. Placement is a fixed rule (capture
/// at the sensor, preprocess at its edge gateway, inference in the
/// backbone), so the placement layer is bypassed and every request
/// spans the fog <-> cloud boundary.
pub struct PinnedWorld {
    env: Env,
    partition: RegionPartition,
    spec: OpenLoopSpec,
    arrival_seed: u64,
    faults: FaultSpec,
    max_live: usize,
    /// Per sensor node: (sensor device, its edge gateway's device).
    local: std::collections::HashMap<NodeId, (DeviceId, DeviceId)>,
    backbone: Vec<DeviceId>,
}

/// Shards of the timed pinned pass.
pub const PINNED_SHARDS: usize = 2;

impl PinnedWorld {
    fn build(scale: Scale, seed: u64, probe: &Probe) -> PinnedWorld {
        let (built, spec_c, env) = continuum_env(scale, probe);
        let partition = probe.span("net.partition", None, || {
            RegionPartition::new(&env.topology, continuum_regions(&spec_c), 0)
        });
        let per_edge = spec_c.sensors_per_edge;
        let local = built
            .sensors
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let edge = built.edges[i / per_edge];
                (s, (env.fleet.at_node(s)[0], env.fleet.at_node(edge)[0]))
            })
            .collect();
        let mut backbone = env.fleet.in_tier(Tier::Cloud);
        backbone.extend(env.fleet.in_tier(Tier::Hpc));
        // Light requests at a high rate: the sharded executor opens a window
        // per arrival, so this is the per-window fan-out the N-thread pass
        // pays for, with ~20% of arrivals past the admission gate.
        let (requests, rate_hz) = scale.pick((20_000, 2_500.0), (300, 100.0));
        let spec = probe.span("workflow.gen", None, || {
            stream_spec(&built, requests, rate_hz, 200 << 10, 2e8)
        });
        let w = PinnedWorld {
            env,
            partition,
            spec,
            arrival_seed: sub_seed(seed, 5),
            faults: FaultSpec {
                fail_prob: 0.05,
                retry_delay: SimDuration::from_millis(50),
                max_attempts: 100,
                seed: sub_seed(seed, 6),
            },
            max_live: scale.pick(1024, 32),
            local,
            backbone,
        };
        let spanning = w.spanning_fraction(200);
        assert!(
            spanning >= 0.8,
            "stream_pinned must be fog<->cloud spanning-heavy (got {spanning:.2})"
        );
        w
    }

    fn place(&self, i: usize, dag: &Dag) -> Placement {
        let sensor = dag
            .task(continuum_workflow::TaskId(0))
            .constraints
            .pinned_node
            .expect("capture is pinned to its sensor");
        let (sensor_dev, edge_dev) = self.local[&sensor];
        Placement {
            assignment: vec![sensor_dev, edge_dev, self.backbone[i % self.backbone.len()]],
        }
    }

    /// Share of the first `n` requests whose placement touches both a
    /// fog region and the backbone region.
    fn spanning_fraction(&self, n: usize) -> f64 {
        let core = self.partition.region_of(self.env.node_of(self.backbone[0]));
        let mut spanning = 0usize;
        let mut seen = 0usize;
        for (i, (_, dag)) in open_loop_arrivals(self.arrival_seed, &self.spec)
            .take(n)
            .enumerate()
        {
            let regions: Vec<usize> = self
                .place(i, &dag)
                .assignment
                .iter()
                .map(|&d| self.partition.region_of(self.env.node_of(d)))
                .collect();
            spanning += usize::from(regions.contains(&core) && regions.iter().any(|&r| r != core));
            seen += 1;
        }
        spanning as f64 / seen.max(1) as f64
    }

    fn run(&self, arm: Arm, probe: &Probe) -> OpenLoopReport {
        let mut i = 0usize;
        let arrivals = TimedArrivals {
            inner: open_loop_arrivals(self.arrival_seed, &self.spec),
            probe,
        }
        .map(|(arrival, dag)| {
            let placement = self.place(i, &dag);
            i += 1;
            StreamRequest {
                dag,
                placement,
                arrival,
            }
        });
        let opts = OpenLoopOpts {
            max_live: self.max_live,
            faults: Some(&self.faults),
            ..OpenLoopOpts::default()
        };
        let shards = match arm {
            Arm::Main => PINNED_SHARDS,
            Arm::OneShard => 1,
        };
        probe.span("runtime.open_loop_sharded", None, || {
            simulate_open_loop_sharded(
                &self.env,
                arrivals,
                &self.partition,
                &opts,
                &ShardOpts::pinned(shards),
            )
        })
    }

    fn outcome(&self, r: &OpenLoopReport) -> Outcome {
        let mut d = Digest::default();
        digest_report(&mut d, r, true);
        Outcome {
            digest: d.finish(),
            events: r.offered + r.tasks_executed + r.transfers,
            violations: stream_violations(r, self.spec.requests),
            counts: stream_counts(r),
        }
    }
}

// -------------------------------------------------------------- fabric

/// funcX-style serving on the fog-densified world: batched drains, warm
/// pools smaller than the function set, an admission cap, one site
/// crash with peer takeover, and the health plane on.
pub struct FabricWorld {
    env: Env,
    registry: FunctionRegistry,
    endpoints: Vec<Endpoint>,
    sites: Vec<Site>,
    invocations: Vec<Invocation>,
    cfg: FederationCfg,
}

impl FabricWorld {
    fn build(scale: Scale, seed: u64, probe: &Probe) -> FabricWorld {
        let spec = ContinuumSpec {
            fogs: scale.pick(32, 4),
            edges_per_fog: 2,
            sensors_per_edge: 2,
            clouds: 4,
            hpcs: 2,
            ..ContinuumSpec::default()
        };
        let built = probe.span("net.build", None, || continuum(&spec));
        let env = probe.span("net.env_build", None, || {
            let mut fleet = standard_fleet(&built);
            for &f in &built.fogs {
                for _ in 0..7 {
                    fleet.add_class(f, DeviceClass::FogServer);
                }
            }
            Env::new(built.topology.clone(), fleet)
        });
        let (endpoints, sites) = probe.span("net.partition", None, || {
            let partition = RegionPartition::new(&env.topology, continuum_regions(&spec), 0);
            let mut devices = env.fleet.in_tier(Tier::Fog);
            devices.extend(env.fleet.in_tier(Tier::Cloud));
            let endpoints = endpoints_on(&env, &devices);
            let sites = sites_from_partition(&env, &partition, &endpoints, 4);
            (endpoints, sites)
        });
        let n = scale.pick(1_000_000, 5_000);
        let rate_hz = scale.pick(20_000.0, 2_000.0);
        let (registry, invocations) = probe.span("workflow.gen", None, || {
            let mut registry = FunctionRegistry::new();
            let functions: Vec<_> = (0..8)
                .map(|f| {
                    registry.register(format!("f{f}"), 5e8 * (1 + f % 4) as f64, 10 << 10, 1 << 10)
                })
                .collect();
            let mut rng = Rng::new(sub_seed(seed, 7));
            let mut t = 0.0;
            let invocations: Vec<Invocation> = (0..n)
                .map(|_| {
                    t += rng.exp(rate_hz);
                    Invocation {
                        arrival: SimTime::from_secs_f64(t),
                        origin: built.sensors[rng.index(built.sensors.len())],
                        function: functions[rng.index(functions.len())],
                    }
                })
                .collect();
            (registry, invocations)
        });
        let span_s = n as f64 / rate_hz;
        let mut cfg = FederationCfg::new(RoutingPolicy::LeastOutstanding);
        cfg.batch = 32;
        cfg.drain_every = SimDuration::from_millis(5);
        cfg.admission = Some(Admission {
            max_outstanding: 4_096,
        });
        cfg.warm_pool = Some(WarmPool {
            capacity: 4,
            cold_time: SimDuration::from_millis(200),
        });
        cfg.site_faults = Some(SiteFaults {
            events: vec![
                SiteFaultEvent {
                    at: SimTime::from_secs_f64(span_s * 0.4),
                    site: 0,
                    crash: true,
                },
                SiteFaultEvent {
                    at: SimTime::from_secs_f64(span_s * 0.6),
                    site: 0,
                    crash: false,
                },
            ],
            heartbeat: SimDuration::from_millis(500),
            backoff: Backoff::default(),
            seed: sub_seed(seed, 8),
        });
        cfg.health = Some(continuum_obs::HealthSpec::default());
        FabricWorld {
            env,
            registry,
            endpoints,
            sites,
            invocations,
            cfg,
        }
    }

    fn run(&self, probe: &Probe) -> FederationReport {
        probe.span("fabric.run_federation", None, || {
            run_federation(
                &self.env,
                &self.registry,
                &self.endpoints,
                &self.sites,
                &self.invocations,
                &self.cfg,
            )
        })
    }

    fn outcome(&self, r: &FederationReport) -> Outcome {
        let n = self.invocations.len() as u64;
        let f = &r.fabric;
        let mut violations = Vec::new();
        if f.completed + f.dropped + f.rejected != n {
            violations.push(format!(
                "completed {} + dropped {} + rejected {} != invocations {n}",
                f.completed, f.dropped, f.rejected
            ));
        }
        Outcome {
            digest: digest_federation(r),
            events: n,
            violations,
            counts: fabric_counts(r),
        }
    }
}

fn digest_federation(r: &FederationReport) -> u64 {
    let mut d = Digest::default();
    let f = &r.fabric;
    d.u64(f.completed);
    d.u64s(f.latencies_s.iter().map(|l| l.to_bits()));
    d.u64s(f.per_endpoint.iter().copied());
    for v in [f.throughput_hz, f.jain, f.slot_seconds, f.lost_work_s] {
        d.f64(v);
    }
    d.u64s([f.end_time.0, f.reroutes, f.retries, f.dropped, f.rejected]);
    d.u64s(r.sites.iter().flat_map(|s| {
        [
            s.completions,
            s.forwarded,
            s.adopted,
            s.drains,
            s.batched,
            s.warm_hits,
            s.cold_boots,
        ]
    }));
    d.u64s([
        r.takeovers,
        r.site_crashes,
        r.site_detections,
        r.site_recoveries,
        r.drains,
        r.batched,
        r.max_batch,
        r.route_hits,
        r.route_misses,
    ]);
    if let Some(h) = &r.health {
        digest_health(&mut d, h);
    }
    d.finish()
}

fn fabric_counts(r: &FederationReport) -> Vec<(&'static str, f64)> {
    let warm: u64 = r.sites.iter().map(|s| s.warm_hits).sum();
    let cold: u64 = r.sites.iter().map(|s| s.cold_boots).sum();
    let (frames, dropped) = r
        .health
        .as_ref()
        .map_or((0, 0), |h| (h.frames.len() as u64, h.frames_dropped));
    vec![
        ("fabric.drains", r.drains as f64),
        (
            "fabric.batch_mean",
            r.batched as f64 / r.drains.max(1) as f64,
        ),
        (
            "fabric.route_hit_rate",
            r.route_hits as f64 / (r.route_hits + r.route_misses).max(1) as f64,
        ),
        (
            "fabric.warm_hit_rate",
            warm as f64 / (warm + cold).max(1) as f64,
        ),
        ("fabric.reroutes", r.fabric.reroutes as f64),
        ("fabric.takeovers", r.takeovers as f64),
        ("fabric.rejected", r.fabric.rejected as f64),
        ("obs.health_frames", frames as f64),
        ("obs.frames_dropped", dropped as f64),
    ]
}
