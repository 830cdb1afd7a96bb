//! One benchmark run of one workload: set-up, correctness checks before
//! any timing, then either the timed 1-thread passes (`trace = false`)
//! or the counting/traced run that yields the per-layer metrics.

use crate::digest::Digest;
use crate::host;
use crate::probe::{Probe, Tally};
use crate::workloads::{Arm, Kind, Outcome, Scale, World, DEFAULT_SEED};
use continuum_obs::{MetricsSnapshot, Telemetry};
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit, is a wall-clock reading). Readings
/// that are not wall-clock are counts and ratios the input fixes; two
/// traced runs must agree on them exactly.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("placement.heft_s", "s", true),
    ("placement.anneal_s", "s", true),
    ("placement.anneal_us_per_move", "us", true),
    ("placement.online_s", "s", true),
    ("placement.online_calls", "count", false),
    ("par.wall_s", "s", true),
    ("par.speedup", "x", true),
    ("par.cpu_s", "s", true),
    ("par.runq_wait_s", "s", true),
    ("sim.events.scheduled", "count", false),
    ("sim.events.cancelled", "count", false),
    ("sim.events.compactions", "count", false),
    ("net.flow.recomputes", "count", false),
    ("net.flow.recomputed_flows", "count", false),
    ("net.flow.mean_batch", "flows", false),
    ("net.routing.hits", "count", false),
    ("net.routing.misses", "count", false),
    ("net.routing.epoch_bumps", "count", false),
    ("net.routing.hit_rate", "ratio", false),
    ("net.env_build_s", "s", true),
    ("runtime.exec_self_s", "s", true),
    ("runtime.ns_per_event", "ns", true),
    ("runtime.transfers", "count", false),
    ("runtime.attempts", "count", false),
    ("runtime.attempt_yield", "ratio", false),
    ("runtime.replacements", "count", false),
    ("runtime.stalls", "count", false),
    ("runtime.peak_live", "count", false),
    ("runtime.rejected", "count", false),
    ("shard.windows", "count", false),
    ("shard.messages", "count", false),
    ("shard.imbalance", "ratio", false),
    ("shard.us_per_window", "us", true),
    ("fabric.run_s", "s", true),
    ("fabric.ns_per_invocation", "ns", true),
    ("fabric.drains", "count", false),
    ("fabric.batch_mean", "count", false),
    ("fabric.route_hit_rate", "ratio", false),
    ("fabric.warm_hit_rate", "ratio", false),
    ("fabric.reroutes", "count", false),
    ("fabric.takeovers", "count", false),
    ("fabric.rejected", "count", false),
    ("obs.health_frames", "count", false),
    ("obs.frames_dropped", "count", false),
    ("obs.trace_overhead_s", "s", true),
    ("workflow.arrivals_s", "s", true),
    ("workflow.gen_s", "s", true),
    ("net.build_s", "s", true),
];

/// Set-ups per timed run: at least `SETUPS.0`, then more until
/// `SETUP_BUDGET_S` is spent, at most `SETUPS.1`; `setup_s` is their
/// median. A set-up takes tens of milliseconds, so one alone is noise.
const SETUPS: (usize, usize) = (5, 100);
const SETUP_BUDGET_S: f64 = 1.0;
/// Fewest timed passes, however long a pass takes.
const MIN_PASSES: usize = 3;

#[derive(Debug, Clone)]
pub struct Config {
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Perturb the input after the reference pass, so every identity
    /// check downstream must fail.
    pub plant: bool,
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed check failed.
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Provenance: (key, value already rendered as JSON).
    pub provenance: Vec<(String, String)>,
    /// Perfetto events of the traced pass.
    pub trace_events: Vec<String>,
}

impl Report {
    /// Count one checked operation; a non-empty `problems` fails it.
    fn check(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    /// Check a pass against the reference outcome.
    fn same(&mut self, what: &str, reference: &Outcome, got: &Outcome) {
        let mut problems = got.violations.clone();
        if got.digest != reference.digest {
            problems.push(format!(
                "outcome digest {:#018x} != reference {:#018x}",
                got.digest, reference.digest
            ));
        }
        self.check(what, problems);
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn prov(&mut self, key: &str, json_value: String) {
        self.provenance.push((key.to_string(), json_value));
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `[min, lower quartile, median, upper quartile, max]` of the samples,
/// rendered for the provenance block: a noisy run shows it here.
fn five_numbers(xs: &[f64]) -> String {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        v.get(((v.len() - 1) as f64 * q).round() as usize)
            .copied()
            .unwrap_or(0.0)
    };
    format!("{:?}", [at(0.0), at(0.25), median(&v), at(0.75), at(1.0)])
}

fn pool(threads: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the rayon stand-in never fails to build a pool")
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Committed digests: lines of `scale workload digest`.
const GOLDEN: &str = include_str!("../golden.txt");

pub fn golden(scale: Scale, kind: Kind) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [s, k, d] if *s == scale.name() && *k == kind.name() => {
                u64::from_str_radix(d.trim_start_matches("0x"), 16).ok()
            }
            _ => None,
        }
    })
}

/// Problems with `digest` against the committed golden digest; only the
/// default seed has one.
pub fn golden_problems(scale: Scale, kind: Kind, seed: u64, digest: u64) -> Vec<String> {
    if seed != DEFAULT_SEED {
        return Vec::new();
    }
    match golden(scale, kind) {
        Some(g) if g == digest => Vec::new(),
        Some(g) => vec![format!("outcome digest {digest:#018x} != golden {g:#018x}")],
        None => vec![format!(
            "no golden digest committed (this pass: {digest:#018x})"
        )],
    }
}

/// Check a built world before anything is timed: conservation, the
/// golden digest at the default seed, the N-thread arm against the
/// 1-thread arm, and (pinned) two shards against one. Returns the
/// reference outcome.
fn check_world(
    kind: Kind,
    cfg: &Config,
    world: &mut World,
    one: &ThreadPool,
    many: &ThreadPool,
    rep: &mut Report,
) -> Outcome {
    let off = Probe::off();
    let reference = one.install(|| world.pass(Arm::Main, &off));
    let mut problems = reference.violations.clone();
    problems.extend(golden_problems(cfg.scale, kind, cfg.seed, reference.digest));
    rep.check("reference pass", problems);
    if cfg.plant {
        world.perturb();
    }
    let par = many.install(|| world.pass(Arm::Main, &off));
    rep.same("N-thread arm vs 1-thread arm", &reference, &par);
    if kind == Kind::StreamPinned {
        let single = one.install(|| world.pass(Arm::OneShard, &off));
        rep.same("pinned 1 shard vs 2 shards", &reference, &single);
    }
    reference
}

/// Run one workload and fill its report.
pub fn run(kind: Kind, cfg: &Config) -> Report {
    let mut rep = Report::default();
    let threads = host::nproc();
    let one = pool(1);
    let many = pool(threads);
    // Each workload reports its own peak, also after another workload
    // ran in this process.
    let rss_reset = host::reset_peak_rss();
    let load_before = host::loadavg();
    let probe_before = host::speed_probe_s();
    let (runq0, steal0) = (host::runq_wait_s(), host::steal_s());
    if cfg.trace {
        traced(kind, cfg, &one, &many, &mut rep);
    } else {
        timed_passes(kind, cfg, &one, &many, &mut rep);
    }
    rep.prov("workload", format!("\"{}\"", kind.name()));
    rep.prov("seed", cfg.seed.to_string());
    rep.prov("scale", format!("\"{}\"", cfg.scale.name()));
    rep.prov("nproc", threads.to_string());
    rep.prov("threads_wall_arm", "1".to_string());
    rep.prov("threads_par_arm", threads.to_string());
    rep.prov("rustc", format!("\"{}\"", host::rustc_version()));
    rep.prov("git_rev", format!("\"{}\"", host::git_rev()));
    rep.prov("loadavg_before", format!("{load_before:?}"));
    rep.prov("loadavg_after", format!("{:?}", host::loadavg()));
    rep.prov(
        "main_runq_wait_s",
        (host::runq_wait_s() - runq0).to_string(),
    );
    rep.prov("peak_rss_reset", rss_reset.to_string());
    rep.prov("host_steal_s", (host::steal_s() - steal0).to_string());
    rep.prov(
        "speed_probe_s",
        format!("{:?}", [probe_before, host::speed_probe_s()]),
    );
    rep
}

fn timed_passes(kind: Kind, cfg: &Config, one: &ThreadPool, many: &ThreadPool, rep: &mut Report) {
    let off = Probe::off();
    let (first_setup, mut world) = timed(|| World::build(kind, cfg.scale, cfg.seed, &off));
    let reference = check_world(kind, cfg, &mut world, one, many, rep);
    // Read the high-water mark after one set-up and the checked passes,
    // a fixed sequence; the number of further set-ups and timed passes
    // depends on the host's speed, and allocator fragmentation with it.
    let peak_rss = host::peak_rss_mb();

    // Set up again, dropping each world, until enough set-ups are timed.
    let mut setups = vec![first_setup];
    while setups.len() < SETUPS.0
        || setups.len() < SETUPS.1 && setups.iter().sum::<f64>() < SETUP_BUDGET_S
    {
        let (t, extra) = timed(|| World::build(kind, cfg.scale, cfg.seed, &off));
        drop(extra);
        setups.push(t);
    }

    // At least MIN_PASSES passes unless that would take over three times
    // the budget: a very slow host still ends the run well inside its
    // time limit.
    let mut walls = Vec::new();
    let mut spent = 0.0;
    while walls.is_empty()
        || spent < cfg.seconds
        || walls.len() < MIN_PASSES && spent < 3.0 * cfg.seconds
    {
        // Only the program's work is timed; its report is digested and
        // checked afterwards.
        let (t, raw) = timed(|| one.install(|| world.run(Arm::Main, &off)));
        rep.same("timed 1-thread pass", &reference, &world.outcome(&raw));
        drop(raw);
        walls.push(t);
        spent += t;
    }
    let wall = median(&walls);
    rep.metric("wall_s", wall, "s");
    rep.metric("events_per_s", reference.events as f64 / wall, "1/s");
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("peak_rss_mb", peak_rss, "MiB");
    rep.prov("events", reference.events.to_string());
    rep.prov("outcome_digest", format!("\"{:#018x}\"", reference.digest));
    rep.prov("passes", walls.len().to_string());
    rep.prov("wall_s_five_numbers", five_numbers(&walls));
    rep.prov("setups", setups.len().to_string());
    rep.prov("setup_s_five_numbers", five_numbers(&setups));
}

/// The counting/traced run: one pass with the telemetry sink installed
/// and spans around every call into a layer, checked against the
/// untraced reference, plus untraced and N-thread passes for the
/// overhead and speed-up readings.
fn traced(kind: Kind, cfg: &Config, one: &ThreadPool, many: &ThreadPool, rep: &mut Report) {
    let probe = Probe::new(true);
    let (setup, mut world) = timed(|| {
        probe.span("setup", None, || {
            World::build(kind, cfg.scale, cfg.seed, &probe)
        })
    });
    let reference = check_world(kind, cfg, &mut world, one, many, rep);
    let off = Probe::off();

    let mut untraced = Vec::new();
    for _ in 0..2 {
        let (t, raw) = timed(|| one.install(|| world.run(Arm::Main, &off)));
        rep.same("untraced 1-thread pass", &reference, &world.outcome(&raw));
        untraced.push(t);
    }

    let tele = Rc::new(Telemetry::new(false));
    let (t_traced, raw) = timed(|| {
        continuum_obs::with_ambient(&tele, || {
            one.install(|| probe.span("pass", None, || world.run(Arm::Main, &probe)))
        })
    });
    let counted = world.outcome(&raw);
    rep.same("counting run vs untraced run", &reference, &counted);
    let snap = tele.metrics.snapshot();

    let (cpu0, runq0) = (host::cpu_s(), host::runq_wait_s());
    let mut pars = Vec::new();
    for _ in 0..2 {
        let (t, raw) = timed(|| many.install(|| world.run(Arm::Main, &off)));
        rep.same("N-thread pass", &reference, &world.outcome(&raw));
        pars.push(t);
    }
    let n_par = pars.len() as f64;
    let par_cpu = (host::cpu_s() - cpu0) / n_par;
    let par_runq = (host::runq_wait_s() - runq0) / n_par;

    let wall = median(&untraced);
    let values = layer_values(&LayerInputs {
        tallies: &probe.tallies(),
        snap: &snap,
        outcome: &counted,
        wall,
        par_wall: median(&pars),
        par_cpu,
        par_runq,
        traced_wall: t_traced,
    });
    for &(name, unit, _) in PER_LAYER {
        let v = values.get(name).copied().unwrap_or(0.0);
        rep.metric(name, v, unit);
    }
    rep.prov("events", reference.events.to_string());
    rep.prov("outcome_digest", format!("\"{:#018x}\"", reference.digest));
    rep.prov("setup_s", setup.to_string());
    rep.prov(
        "counts_digest",
        format!("\"{:#018x}\"", counts_digest(&rep.metrics)),
    );
    let pid = Kind::ALL.iter().position(|&k| k == kind).unwrap_or(0) as u32 + 1;
    probe.write_events(pid, kind.name(), &mut rep.trace_events);
}

/// Digest of the non-wall-clock per-layer readings: equal across two
/// counting runs of the same input.
pub fn counts_digest(metrics: &[(String, f64, &'static str)]) -> u64 {
    let mut d = Digest::default();
    for (name, v, _) in metrics {
        if PER_LAYER.iter().any(|&(n, _, timed)| n == name && !timed) {
            d.f64(*v);
        }
    }
    d.finish()
}

struct LayerInputs<'a> {
    tallies: &'a BTreeMap<&'static str, Tally>,
    snap: &'a MetricsSnapshot,
    outcome: &'a Outcome,
    wall: f64,
    par_wall: f64,
    par_cpu: f64,
    par_runq: f64,
    traced_wall: f64,
}

fn layer_values(x: &LayerInputs<'_>) -> BTreeMap<&'static str, f64> {
    let tally = |name: &str| x.tallies.get(name).copied().unwrap_or_default();
    let counter = |name: &str| x.snap.counter(name) as f64;
    let per = |num: f64, den: f64, scale: f64| if den > 0.0 { num / den * scale } else { 0.0 };
    let mut v: BTreeMap<&'static str, f64> = x.outcome.counts.iter().copied().collect();

    let anneal = tally("placement.anneal");
    let online = tally("placement.online");
    v.insert("placement.heft_s", tally("placement.heft").total_s);
    v.insert("placement.anneal_s", anneal.total_s);
    let moves = v.get("placement.anneal_moves").copied().unwrap_or(0.0);
    v.insert(
        "placement.anneal_us_per_move",
        per(anneal.total_s, moves, 1e6),
    );
    v.insert("placement.online_s", online.total_s);
    v.insert("placement.online_calls", online.calls as f64);

    v.insert("par.wall_s", x.par_wall);
    v.insert("par.speedup", per(x.wall, x.par_wall, 1.0));
    v.insert("par.cpu_s", x.par_cpu);
    v.insert("par.runq_wait_s", x.par_runq);

    v.insert("sim.events.scheduled", counter("event_queue.scheduled"));
    v.insert("sim.events.cancelled", counter("event_queue.cancelled"));
    v.insert("sim.events.compactions", counter("event_queue.compactions"));
    let (recomputes, flows) = (
        counter("flow_engine.recomputes"),
        counter("flow_engine.recomputed_flows"),
    );
    v.insert("net.flow.recomputes", recomputes);
    v.insert("net.flow.recomputed_flows", flows);
    v.insert("net.flow.mean_batch", per(flows, recomputes, 1.0));
    // The executors' route cache and the fabric forwarder's are the
    // same `RouteCache`; a workload uses one or the other.
    let hits = counter("route_cache.hits") + counter("fabric.forwarder.hits");
    let misses = counter("route_cache.misses") + counter("fabric.forwarder.misses");
    v.insert("net.routing.hits", hits);
    v.insert("net.routing.misses", misses);
    v.insert(
        "net.routing.epoch_bumps",
        counter("route_cache.epoch_bumps") + counter("fabric.forwarder.epoch_bumps"),
    );
    v.insert("net.routing.hit_rate", per(hits, hits + misses, 1.0));
    v.insert("net.env_build_s", tally("net.env_build").total_s);

    // The executor's own time: its call minus the benchmark's arrival
    // generation and online placement running inside it.
    let exec = tally("runtime.open_loop").self_s + tally("runtime.open_loop_sharded").self_s;
    let stream = x.tallies.contains_key("runtime.open_loop")
        || x.tallies.contains_key("runtime.open_loop_sharded");
    v.insert("runtime.exec_self_s", exec);
    let events = if stream { x.outcome.events as f64 } else { 0.0 };
    v.insert("runtime.ns_per_event", per(exec, events, 1e9));
    v.insert("runtime.stalls", counter("executor.stalls"));

    let windows = counter("shard.windows");
    v.insert("shard.windows", windows);
    v.insert("shard.messages", counter("shard.messages"));
    v.insert(
        "shard.imbalance",
        x.snap.gauge("shard.util.imbalance").unwrap_or(0.0),
    );
    v.insert(
        "shard.us_per_window",
        per(tally("runtime.open_loop_sharded").self_s, windows, 1e6),
    );

    let fabric = tally("fabric.run_federation").total_s;
    v.insert("fabric.run_s", fabric);
    let invocations = counter("fabric.invocations");
    v.insert("fabric.ns_per_invocation", per(fabric, invocations, 1e9));

    v.insert("obs.trace_overhead_s", x.traced_wall - x.wall);
    v.insert("workflow.arrivals_s", tally("workflow.arrival").total_s);
    v.insert("workflow.gen_s", tally("workflow.gen").total_s);
    v.insert("net.build_s", tally("net.build").total_s);
    v
}
